"""Expected outputs, computed with numpy from the generated arrays.

Nothing here imports regmap: the overlap join, the mining counts, the
proximity hits and the invalid-row scan are each recomputed from the
closed-form overlap rule, so a defect shared by regmap.joins and
regmap.store cannot also hide in the check.

Signed overlap of [s1, e1) and [s2, e2) is min(e1, e2) - max(s1, s2);
it is at least m exactly when both lengths are at least m,
s2 <= e1 - m and e2 >= s1 + m.
"""

from __future__ import annotations

import numpy as np

from gen import Dataset

PAIRS_HEADER = "a_id\tb_id\tchrom\tbp_overlap\tcentre_distance\n"
MINING_HEADER = (
    "assembly\tquery_name\tquery_factor\tquery_cell_line\tquery_treatment\t"
    "ref_name\tref_factor\tref_cell_line\tref_treatment\tquery_total\toverlapping\tpercentage\n"
)


def pairs_tsv(a: Dataset, b: Dataset) -> bytes:
    """`regmap overlap` output at the default filter (min_bp 1).

    A's ids are 1..|A| in file order and B's continue after them.
    Candidates come from a searchsorted window over B sorted by start,
    widened by B's longest region, then filtered exactly.
    """
    a_ids = np.arange(1, len(a) + 1)
    b_ids = np.arange(len(a) + 1, len(a) + len(b) + 1)
    rows = []
    for code, name in enumerate(a.names):
        am = a.chrom == code
        bm = b.chrom == code
        if not am.any() or not bm.any():
            continue
        a_s, a_e, a_id = a.start[am], a.end[am], a_ids[am]
        order = np.argsort(b.start[bm], kind="stable")
        b_s, b_e, b_id = b.start[bm][order], b.end[bm][order], b_ids[bm][order]
        widest = int((b_e - b_s).max())
        lo = np.searchsorted(b_s, a_s - widest + 1, "left")
        hi = np.searchsorted(b_s, a_e - 1, "right")
        n = np.maximum(hi - lo, 0)
        ai = np.repeat(np.arange(len(a_s)), n)
        bi = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n) + np.repeat(lo, n)
        bp = np.minimum(a_e[ai], b_e[bi]) - np.maximum(a_s[ai], b_s[bi])
        keep = bp >= 1
        ai, bi, bp = ai[keep], bi[keep], bp[keep]
        twice_cd = np.abs((a_s[ai] + a_e[ai]) - (b_s[bi] + b_e[bi]))
        rows.extend(
            zip(a_id[ai].tolist(), b_id[bi].tolist(), [name] * len(ai), bp.tolist(), twice_cd.tolist())
        )
    rows.sort()
    out = [PAIRS_HEADER]
    for a_id, b_id, name, bp, twice in rows:
        cd = str(twice // 2) if twice % 2 == 0 else f"{twice // 2}.5"
        out.append(f"{a_id}\t{b_id}\t{name}\t{bp}\t{cd}\n")
    return "".join(out).encode()


def overlapping_queries(q: Dataset, r: Dataset, min_bp: int) -> int:
    """Distinct valid rows of q with signed overlap >= min_bp to a valid
    row of r on the same chromosome (the mining report's count).

    Over r sorted by start, a running maximum of ends answers "does
    any r with s2 <= e1 - m reach e2 >= s1 + m" for each q row at once.
    """
    qv, rv = q.valid, r.valid
    qv &= q.end - q.start >= min_bp
    rv &= r.end - r.start >= min_bp
    q_names = np.asarray(q.names)[q.chrom]
    r_names = np.asarray(r.names)[r.chrom]
    total = 0
    for name in set(q.names) & set(r.names):
        qm = qv & (q_names == name)
        rm = rv & (r_names == name)
        if not qm.any() or not rm.any():
            continue
        order = np.argsort(r.start[rm], kind="stable")
        r_s = r.start[rm][order]
        reach = np.maximum.accumulate(r.end[rm][order])
        idx = np.searchsorted(r_s, q.end[qm] - min_bp, "right")
        hit = (idx > 0) & (reach[np.maximum(idx - 1, 0)] >= q.start[qm] + min_bp)
        total += int(hit.sum())
    return total


def percentage(overlapping: int, total: int) -> str:
    """overlapping / total in percent, rounded half up to 2 decimals."""
    if total == 0:
        return "0.00"
    hundredths = (overlapping * 20_000 + total) // (2 * total)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def mining_tsv(entries, datasets: dict[str, Dataset], min_bp: int) -> tuple[bytes, int]:
    """`regmap mine` output over catalog ``entries`` plus its row count.

    ``entries`` are (name, factor, cell_line, treatment, assembly)
    tuples. Only ordered pairs within one assembly produce a row.
    """
    rows = []
    for qn, qf, qc, qt, qa in entries:
        q = datasets[qn]
        q_total = int(q.valid.sum())
        for rn, rf, rc, rt, ra in entries:
            if rn == qn or ra != qa:
                continue
            hits = overlapping_queries(q, datasets[rn], min_bp)
            rows.append(
                (qa, qn, rn, (qa, qn, qf, qc, qt, rn, rf, rc, rt, str(q_total), str(hits), percentage(hits, q_total)))
            )
    rows.sort(key=lambda row: row[:3])
    text = MINING_HEADER + "".join("\t".join(fields) + "\n" for *_, fields in rows)
    return text.encode(), len(rows)


class StoreModel:
    """The store's rows as arrays, in id order, for checking searches.

    Rows of each dataset take consecutive ids in file order, every
    accepted row counts (valid or not), and datasets follow import order.
    """

    def __init__(self):
        self._chrom: list[np.ndarray] = []
        self._start: list[np.ndarray] = []
        self._end: list[np.ndarray] = []
        self.size = 0
        self.invalid_ids: list[int] = []
        self._by_chrom: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def add(self, ds: Dataset) -> None:
        self._chrom.append(np.asarray(ds.names)[ds.chrom])
        self._start.append(ds.start)
        self._end.append(ds.end)
        self.size += len(ds)
        self._by_chrom = None

    def _columns(self):
        if self._by_chrom is None:
            chrom = np.concatenate(self._chrom)
            start = np.concatenate(self._start)
            end = np.concatenate(self._end)
            ids = np.arange(1, len(start) + 1)
            ok = (start >= 0) & (end >= start)
            self._by_chrom = {
                name: (ids[m], start[m], end[m])
                for name in np.unique(chrom[ok]).tolist()
                for m in [ok & (chrom == name)]
            }
            self.invalid_ids = ids[~ok].tolist()
        return self._by_chrom

    def near(self, chrom: str, position: int, window: int, visible: int) -> list[int]:
        """Ids of valid rows with id <= visible sharing >= 1 base with
        [position - window, position + window) on chrom."""
        cols = self._columns().get(chrom)
        if cols is None:
            return []
        ids, start, end = cols
        lo, hi = position - window, position + window
        m = (ids <= visible) & (np.minimum(end, hi) - np.maximum(start, lo) >= 1)
        return ids[m].tolist()

    def invalid(self, visible: int) -> list[int]:
        self._columns()
        return [i for i in self.invalid_ids if i <= visible]
