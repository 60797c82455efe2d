"""The ``sql_adhoc`` op stream and every workload's TPC-H instance.

Every op generator (this one, ``dml.dml_ops``, ``http.http_ops``) is a
pure function of ``seed``: it returns the SQL text or request payloads the
program receives, and nothing else.  The TPC-H data
itself is fixed (generator seed 0 at each workload's scale factor); only
the statements and requests vary with ``seed``, so runs on different seeds
measure the same distribution of work.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Tuple

#: Fixed TPC-H instance per workload: (scale factor, data seed).
DATA = {
    "sql_adhoc": (0.1, 0),
    "dml_mixed": (0.2, 0),
    "http_serve": (0.2, 0),
}

#: The paper's ε (relative error).
EPSILON = 0.01

# -- sql_adhoc: hierarchical and IQ templates (paper queries 1, 15, B1, B6,
# B16, B17, IQ B1, IQ B4, IQ 6), one seeded selection constant set each.
ADHOC_TEMPLATES: Dict[str, str] = {
    "1": (
        "select l_returnflag, l_linestatus, conf() from lineitem "
        "where l_shipdate >= {lo} and l_shipdate <= {hi}"
    ),
    "15": (
        "select s.s_suppkey, conf() from supplier s, lineitem l "
        "where s.s_suppkey = l.l_suppkey and l.l_shipdate >= {lo} "
        "and l.l_shipdate <= {hi}"
    ),
    "B1": (
        "select conf() from lineitem l, orders o "
        "where l.l_orderkey = o.o_orderkey and l.l_shipdate >= {lo} "
        "and l.l_shipdate <= {hi}"
    ),
    "B6": (
        "select conf() from lineitem where l_shipdate >= {lo} "
        "and l_shipdate <= {hi} and l_quantity < {q} "
        "and l_discount >= 0.02 and l_discount <= 0.08"
    ),
    "B16": (
        "select conf() from part p, partsupp ps "
        "where p.p_partkey = ps.ps_partkey and p.p_size >= {size} "
        "and p.p_retailprice <= {price} and ps.ps_supplycost <= {cost}"
    ),
    "B17": (
        "select conf() from lineitem l, part p "
        "where l.l_partkey = p.p_partkey and l.l_quantity < {q} "
        "and l.l_shipdate >= {lo} and l.l_shipdate <= {hi}"
    ),
    "IQ B1": (
        "select conf() from supplier s, customer c "
        "where s.s_acctbal < c.c_acctbal and c.c_custkey >= {ck} "
        "and c.c_custkey <= {ck2} and s.s_acctbal >= {sb}"
    ),
    "IQ B4": (
        "select conf() from supplier s, customer c, orders o "
        "where s.s_acctbal < c.c_acctbal and c.c_acctbal < o.o_orderdate "
        "and c.c_custkey >= {ck} and c.c_custkey <= {ck2} "
        "and s.s_acctbal >= {sb} and o.o_orderdate >= {od} "
        "and o.o_orderdate <= {od2}"
    ),
    "IQ 6": (
        "select conf() from lineitem l, orders o "
        "where l.l_extendedprice < o.o_totalprice and l.l_shipdate >= {lo} "
        "and l.l_shipdate <= {hi} and o.o_totalprice <= {price}"
    ),
}


def _adhoc_params(name: str, rng: random.Random) -> Dict[str, object]:
    lo = rng.randrange(0, 2300)
    if name == "1":
        return {"lo": lo, "hi": lo + rng.randrange(100, 250)}
    if name == "15":
        return {"lo": lo, "hi": lo + rng.randrange(60, 160)}
    if name == "B1":
        return {"lo": lo, "hi": lo + rng.randrange(60, 160)}
    if name == "B6":
        return {"lo": lo, "hi": lo + rng.randrange(150, 300),
                "q": rng.randrange(20, 40)}
    if name == "B16":
        return {"size": rng.randrange(0, 30),
                "price": round(rng.uniform(1100.0, 2000.0), 2),
                "cost": round(rng.uniform(100.0, 960.0), 2)}
    if name == "B17":
        return {"lo": lo, "hi": lo + rng.randrange(150, 300),
                "q": rng.randrange(15, 35)}
    if name == "IQ B1":
        ck = rng.randrange(0, 13)
        return {"ck": ck, "ck2": ck + rng.randrange(0, 3),
                "sb": round(rng.uniform(-1000.0, 5000.0), 2)}
    if name == "IQ B4":
        # Customers 5 and 6 are the only ones of the first ten whose
        # balances sit below the order dates (day numbers up to 2500);
        # every window holds both, so few instances are empty.
        ck = rng.randrange(0, 6)
        od = rng.randrange(1700, 2300)
        return {"ck": ck, "ck2": rng.randrange(6, 10),
                "sb": round(rng.uniform(-1000.0, 1650.0), 2),
                "od": od, "od2": od + rng.randrange(100, 400)}
    if name == "IQ 6":
        return {"lo": lo, "hi": lo + rng.randrange(20, 60),
                "price": rng.randrange(20000, 80000)}
    raise KeyError(name)


def adhoc_ops(seed: int) -> Iterator[Tuple[str, str]]:
    """``(template, sql)`` for the ad-hoc analyst stream: rounds over the
    templates in seeded order, each template once per round, with seeded
    constants, never yielding the same statement text twice."""
    rng = random.Random(f"adhoc:{seed}")
    seen = set()
    while True:
        order = sorted(ADHOC_TEMPLATES)
        rng.shuffle(order)
        for name in order:
            for _attempt in range(1000):
                text = ADHOC_TEMPLATES[name].format(
                    **_adhoc_params(name, rng))
                if text not in seen:
                    break
            else:  # pragma: no cover - constant space exhausted
                raise RuntimeError(f"no fresh constants left for {name}")
            seen.add(text)
            yield name, text
