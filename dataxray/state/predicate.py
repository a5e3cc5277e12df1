"""Conjunctive row predicates with parquet footer-stats pruning.

Reference analog: the reader WHERE surface — every split's generated query
carries the user's WHERE clause so the source prunes rows before they enter
the channel (rdbmsreader SingleTableSplitUtil.buildQuerySql:132-142). The
lake-side equivalent has two layers, applied in ``Lake.dataset``:

1. **File pruning** — parquet footer min/max statistics exclude whole files
   whose value range cannot satisfy the predicate (zero bytes read beyond
   the footer): single files of pure-base partitions, whole delta
   partitions.
2. **Post-resolve filtering** — delta partitions must feed ALL lineage rows
   for a key through the LWW merge (filtering first could resurrect a row
   that a later tombstone deleted), so the predicate applies to the
   *resolved* view inside each partition's read job (a pure-base partition
   resolves to its rows as read). Whole partitions still prune via layer 1:
   a resolved row's values come from some raw file row, so if no raw file
   in the partition can match, no resolved row can.

Pruning is conservative: missing statistics, unsupported operators and
type mismatches all keep the file.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

_OPS = ("==", "!=", "<", "<=", ">", ">=", "in")

Conjunct = tuple[str, str, object]


class Predicate:
    """AND of ``(column, op, value)`` conjuncts; op in ==, !=, <, <=, >, >=, in.

    SQL comparison semantics: a NULL in the column never matches (pyarrow
    compute kernels propagate null → dropped by filter), matching what the
    equivalent WHERE clause does in the DuckDB oracle.
    """

    def __init__(self, conjuncts: list[Conjunct]):
        for col, op, _ in conjuncts:
            if op not in _OPS:
                raise ValueError(f"unsupported predicate op {op!r} on {col!r}")
        self.conjuncts = list(conjuncts)

    # ---------- compilation ----------
    def to_expression(self) -> pads.Expression:
        expr = None
        for col, op, val in self.conjuncts:
            f = pads.field(col)
            if op == "==":
                e = f == val
            elif op == "!=":
                e = f != val
            elif op == "<":
                e = f < val
            elif op == "<=":
                e = f <= val
            elif op == ">":
                e = f > val
            elif op == ">=":
                e = f >= val
            else:  # in
                e = f.isin(list(val))
            expr = e if expr is None else expr & e
        if expr is None:
            return pads.scalar(True)
        return expr

    def columns(self) -> list[str]:
        return sorted({c for c, _, _ in self.conjuncts})

    def filter_table(self, t: pa.Table) -> pa.Table:
        if not self.conjuncts:
            return t
        return t.filter(self.to_expression())

    # ---------- footer-stats file pruning ----------
    def file_may_match(self, fs, path: str) -> bool:
        """False only when the footer statistics PROVE no row matches.

        A file is prunable when, for some conjunct, EVERY row group's
        [min, max] range excludes it. Any missing statistic, stats-less
        column, or comparison error keeps the file (conservative).
        """
        if not self.conjuncts:
            return True
        try:
            md = pq.read_metadata(path, filesystem=fs.pafs)
        except Exception:
            return True
        names = md.schema.to_arrow_schema().names
        idx = {n: i for i, n in enumerate(names)}
        for col, op, val in self.conjuncts:
            if col not in idx:
                # column absent → reads as null everywhere → no row matches
                return False
            if self._col_excluded(md, idx[col], op, val):
                return False
        return True

    @staticmethod
    def _col_excluded(md, ci: int, op: str, val) -> bool:
        """True iff every row group's stats exclude this conjunct."""
        for rg in range(md.num_row_groups):
            try:
                st = md.row_group(rg).column(ci).statistics
                if st is None or not st.has_min_max:
                    return False
                lo, hi = st.min, st.max
                if op == "==":
                    hit = lo <= val <= hi
                elif op == "!=":
                    hit = not (lo == val == hi)
                elif op == "<":
                    hit = lo < val
                elif op == "<=":
                    hit = lo <= val
                elif op == ">":
                    hit = hi > val
                elif op == ">=":
                    hit = hi >= val
                else:  # in
                    hit = any(lo <= v <= hi for v in val)
            except Exception:
                return False
            if hit:
                return False
        return True


def normalize(predicate) -> Predicate | None:
    """Accept a Predicate, a list of (col, op, value) tuples, or None."""
    if predicate is None:
        return None
    if isinstance(predicate, Predicate):
        return predicate
    return Predicate(list(predicate))
