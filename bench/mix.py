"""The cli-mix workload: a seeded batch of short `waring` invocations.

A batch has a fixed composition (how many calls of each kind), so every
seed exercises the same paths in the same proportions; the seed draws the
arguments within each kind, the output formats and the order. Every
subcommand appears in md, csv and json. The 20 `max-rank-sum --oracle`
calls at (14, 7) are the heavy tail: with 100 calls the p90 falls in the
middle of that group rather than on its edge.
"""

from __future__ import annotations

import random

FORMATS = ("md", "csv", "json")
TABLE_NAMES = ("exceptional-44-53", "coprime-43", "known-examples")
CLAIMS = ("theorem-monomial", "theorem-coprime", "lemma-slope", "ineq-agm", "ineq-pure-power")


def _composition(rng: random.Random, parts: int, total: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _rank_monomial(rng):
    exps = [rng.randint(0, 6) for _ in range(rng.randint(1, 6))]
    if not any(exps):
        exps[0] = 1
    return "rank", {"monomial": ",".join(map(str, exps)), "vars": rng.choice([None, len(exps) + 2])}


def _rank_sum(rng):
    degree = rng.randint(2, 5)
    blocks = [_composition(rng, rng.randint(1, min(3, degree)), degree) for _ in range(rng.randint(2, 3))]
    return "rank", {"sum": "|".join(",".join(map(str, b)) for b in blocks)}


def _generic_rank(rng):
    return "generic-rank", {"n": rng.randint(2, 12), "d": rng.randint(2, 20)}


def _max_rank(rng):
    return "max-rank", {"n": rng.randint(2, 8), "d": rng.randint(2, 24)}


def _max_rank_oracle(rng):
    return "max-rank", {"n": rng.randint(3, 6), "d": rng.randint(4, 14), "oracle": True}


def _max_rank_sum(rng):
    if rng.random() < 0.5:
        return "max-rank-sum", {"n": rng.randint(2, 12), "d": 3}
    n = rng.randint(2, 6)
    return "max-rank-sum", {"n": n, "d": rng.randint(n, 12)}


def _max_rank_sum_oracle(rng):
    return "max-rank-sum", {"n": 14, "d": 7, "oracle": True}


def _bounds(rng):
    return "bounds", {"n": rng.randint(2, 10), "d": rng.randint(2, 12)}


def _enumerate(rng):
    sums = rng.random() < 0.5
    return "enumerate", {
        "n": rng.randint(2, 5),
        "d": rng.randint(2, 8),
        "sums": sums,
        "spanning": sums and rng.random() < 0.3,
    }


def _verify(rng):
    claim = rng.choice(CLAIMS)
    if claim == "lemma-slope":
        return "verify", {"claim": claim, "n_range": None, "d_range": f"4:{rng.randint(4, 10)}"}
    n_lo = rng.randint(4, 5)
    if claim == "theorem-coprime":
        d_lo = rng.randint(3, 4)
        d_hi = d_lo + 1
    else:
        d_lo = 4 if claim == "ineq-pure-power" else rng.randint(2, 4)
        d_hi = d_lo + rng.randint(0, 4)
    return "verify", {"claim": claim, "n_range": f"{n_lo}:{n_lo + 1}", "d_range": f"{d_lo}:{d_hi}"}


def _asymptotics_d(rng):
    n = rng.randint(2, 6)
    which = rng.choice(["monomial", "coprime"])
    lo = n if which == "coprime" else 2
    samples = sorted(rng.sample(range(lo, 61), 3))
    return "asymptotics", {"mode": "d-limit", "n": n, "d_samples": ",".join(map(str, samples)), "which": which}


def _asymptotics_n(rng):
    return "asymptotics", {"mode": "n-limit", "d": 4}


def _table(rng):
    return "table", {"name": rng.choice(TABLE_NAMES)}


# (kind, draw, calls per batch); the counts sum to BATCH.
KINDS = (
    ("rank-monomial", _rank_monomial, 9),
    ("rank-sum", _rank_sum, 6),
    ("generic-rank", _generic_rank, 6),
    ("max-rank", _max_rank, 8),
    ("max-rank-oracle", _max_rank_oracle, 3),
    ("max-rank-sum", _max_rank_sum, 6),
    ("max-rank-sum-oracle", _max_rank_sum_oracle, 20),
    ("bounds", _bounds, 7),
    ("enumerate", _enumerate, 8),
    ("verify", _verify, 8),
    ("asymptotics-d", _asymptotics_d, 5),
    ("asymptotics-n", _asymptotics_n, 8),
    ("table", _table, 6),
)
BATCH = sum(count for _, _, count in KINDS)


def make_batch(rng: random.Random) -> list[dict]:
    """One batch of command specs {'kind', 'cmd', 'params', 'fmt'} in run order."""
    batch = []
    for kind, draw, count in KINDS:
        offset = rng.randrange(len(FORMATS))
        for i in range(count):
            cmd, params = draw(rng)
            batch.append({"kind": kind, "cmd": cmd, "params": params, "fmt": FORMATS[(offset + i) % 3]})
    rng.shuffle(batch)
    return batch


def tour(batch: list[dict]) -> list[dict]:
    """The traced sample: the first three calls of each kind."""
    taken: dict[str, int] = {}
    out = []
    for spec in batch:
        if taken.get(spec["kind"], 0) < 3:
            taken[spec["kind"]] = taken.get(spec["kind"], 0) + 1
            out.append(spec)
    return out
