"""``dml_mixed``: SQL writes beside re-reads on a warm session.

Each op is one write through ``ProbDB.execute`` (mostly ``UPDATE … SET
PROBABILITY`` on a row in the lineage of the read set, plus an INSERT and
a matching DELETE every ``INSERT_EVERY`` writes) followed by a re-read of
the read-set query whose lineage the write touched.  The session compiles
circuits (``compile_circuits=True``) and every read set query is warm
before the first op, so a re-read finds the untouched answers in the
circuit cache and recomputes only what the write's invalidation evicted.
Confidences are exact (``ε = 0``).
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro import EngineConfig, ProbDB
from repro.core.approx import ABSOLUTE

from .harness import Workload, answer_rows, tpch
from .oracle import SqlOracle

NAME = "dml_mixed"

#: The fixed read set: B2's join grouped by region, over part-size bands.
READ_SQL = (
    "select r.r_name, conf() from part p, partsupp ps, supplier s, "
    "nation n, region r where p.p_partkey = ps.ps_partkey "
    "and ps.ps_suppkey = s.s_suppkey and s.s_nationkey = n.n_nationkey "
    "and n.n_regionkey = r.r_regionkey and p.p_size >= {lo} "
    "and p.p_size <= {hi}"
)
SIZE_BANDS = ((1, 12), (13, 25), (26, 38), (39, 50))
READS = tuple(READ_SQL.format(lo=lo, hi=hi) for lo, hi in SIZE_BANDS)

#: One INSERT (and, half a period later, the DELETE of the inserted row)
#: per this many writes; the rest are probability updates.
INSERT_EVERY = 25

Op = Tuple[str, int]  # (write statement, index of the read to re-issue)


def _band(size: int) -> int:
    for index, (lo, hi) in enumerate(SIZE_BANDS):
        if lo <= size <= hi:
            return index
    raise ValueError(size)


def dml_ops(seed: int) -> Iterator[Op]:
    """Seeded writes, each paired with the read whose lineage it touches."""
    rng = random.Random(f"dml:{seed}")
    database = tpch(NAME)
    sizes = {row[0]: row[3] for row, _lineage in database["part"].rows}
    pairs = [(row[0], row[1]) for row, _lineage in database["partsupp"].rows]
    suppliers = [row[0] for row, _lineage in database["supplier"].rows]
    existing = set(pairs)
    inserted: Optional[Tuple[int, int]] = None
    for index in itertools.count():
        phase = index % INSERT_EVERY
        if phase == 0:
            part = rng.choice(pairs)[0]
            supplier = rng.choice(
                [s for s in suppliers if (part, s) not in existing]
            )
            inserted = (part, supplier)
            probability = round(rng.uniform(0.05, 0.95), 4)
            yield (
                f"insert into partsupp values ({part}, {supplier}, 1.0) "
                f"with probability {probability}",
                _band(sizes[part]),
            )
        elif phase == INSERT_EVERY // 2 and inserted is not None:
            part, supplier = inserted
            inserted = None
            yield (
                f"delete from partsupp where ps_partkey = {part} "
                f"and ps_suppkey = {supplier}",
                _band(sizes[part]),
            )
        else:
            part, supplier = rng.choice(pairs)
            probability = round(rng.uniform(0.05, 0.95), 4)
            yield (
                f"update partsupp set probability = {probability} "
                f"where ps_partkey = {part} and ps_suppkey = {supplier}",
                _band(sizes[part]),
            )


class DmlWorkload(Workload):
    name = NAME
    kinds = ("write", "read")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = EngineConfig(compile_circuits=True, rng_seed=0)

    def setup(self) -> ProbDB:
        session = ProbDB(tpch(NAME), self.config)
        for sql in READS:
            session.sql(sql).confidences()
        return session

    def discard(self, state: ProbDB) -> None:
        state.close()

    def ops(self) -> Iterator[Op]:
        return dml_ops(self.seed)

    def run(self, state: ProbDB, op: Op):
        write, read = op
        clock = time.perf_counter
        started = clock()
        outcome = state.execute(write)
        written = clock()
        rows = answer_rows(state.sql(READS[read]).confidences())
        done = clock()
        return (
            [outcome.rows_affected, rows],
            {"write": written - started, "read": done - written},
        )

    def check(self, ops, outputs):
        """Replay the writes on a plain session and check every read
        against exact reference values at that point of the sequence."""
        session = ProbDB(tpch(NAME))
        oracle = SqlOracle(session.database)
        # A probability update keeps every lineage formula (only its
        # variables' probabilities move, which the oracle's memo keys on);
        # inserts and deletes change formulas, so they drop this cache.
        lineage: Dict[int, list] = {}
        errors: List[Optional[str]] = []
        for (write, read), (affected, rows) in zip(ops, outputs):
            expected = session.execute(write).rows_affected
            if not write.startswith("update"):
                lineage.clear()
            if affected != expected:
                errors.append(
                    f"write affected {affected} rows, reference {expected}"
                )
                continue
            if read not in lineage:
                lineage[read] = oracle.lineage(READS[read])
            errors.append(
                oracle.check(rows, lineage[read], 0.0, ABSOLUTE)
            )
        return errors
