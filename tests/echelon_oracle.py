"""Reference integer echelon for the lattice tests.

This is the echelon that lattices._SparseEchelon replaced: it inserts
rows one at a time without keeping them canonical, rescans a whole row
after every reduction step, and back-reduces once at the end.  It is
slow but simple, and the tests compare hnf, left_kernel and
spin_closure against the functions here.  Results are plain tuples of
rows, since the canonical HNF is unique.
"""

from lpres.lattices import row_times_matrix, xgcd


def _combine(a, ca, b, cb):
    out = {}
    for k in a.keys() | b.keys():
        v = ca * a.get(k, 0) + cb * b.get(k, 0)
        if v:
            out[k] = v
    return out


class ReferenceEchelon:
    def __init__(self):
        self.rows = {}

    def _canonicalize(self, r, exclude=-1):
        while True:
            col = None
            for k, v in r.items():
                if k == exclude:
                    continue
                cur = self.rows.get(k)
                if cur is not None and not 0 <= v < cur[k] and (col is None or k < col):
                    col = k
            if col is None:
                return r
            cur = self.rows[col]
            r = _combine(r, 1, cur, -(r[col] // cur[col]))

    def insert(self, row):
        pending = [{k: v for k, v in row.items() if v}]
        while pending:
            r = self._canonicalize(pending.pop())
            while r:
                lead = min(r)
                cur = self.rows.get(lead)
                if cur is None:
                    if r[lead] < 0:
                        r = {k: -v for k, v in r.items()}
                    self.rows[lead] = self._canonicalize(r, exclude=lead)
                    break
                d, a = cur[lead], r[lead]
                q, rem = divmod(a, d)
                if rem == 0:
                    r = self._canonicalize(_combine(r, 1, cur, -q))
                else:
                    g, x, y = xgcd(d, a)
                    new = _combine(cur, x, r, y)
                    displaced = _combine(cur, 1, new, -(d // g))
                    r = self._canonicalize(_combine(r, 1, new, -(a // g)))
                    self.rows[lead] = self._canonicalize(new, exclude=lead)
                    if displaced:
                        pending.append(self._canonicalize(displaced))

    def canonical(self, ncols):
        pivots = sorted(self.rows)
        for p in pivots:
            d = self.rows[p][p]
            for p2 in pivots:
                if p2 >= p:
                    break
                q = self.rows[p2].get(p, 0) // d
                if q:
                    self.rows[p2] = _combine(self.rows[p2], 1, self.rows[p], -q)
        dense = []
        for p in pivots:
            row = [0] * ncols
            for k, v in self.rows[p].items():
                row[k] = v
            dense.append(tuple(row))
        return tuple(dense)


def reference_hnf(rows, ncols):
    echelon = ReferenceEchelon()
    for r in rows:
        echelon.insert(dict(enumerate(r)))
    return echelon.canonical(ncols)


def reference_membership(hnf_rows, vector):
    v = list(vector)
    for row in hnf_rows:
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[p], row[p])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def reference_left_kernel(matrix):
    ncols = len(matrix[0])
    echelon = ReferenceEchelon()
    for i, r in enumerate(matrix):
        row = dict(enumerate(r))
        row[ncols + i] = 1
        echelon.insert(row)
    rows = echelon.canonical(ncols + len(matrix))
    return [list(r[ncols:]) for r in rows if not any(r[:ncols])]


def reference_spin_closure(seeds, matrices, base, ncols):
    lattice = reference_hnf(list(seeds) + list(base), ncols)
    queue = [list(r) for r in seeds]
    head = 0
    while head < len(queue):
        vec = queue[head]
        head += 1
        for mat in matrices:
            img = row_times_matrix(vec, mat)
            if not reference_membership(lattice, img):
                lattice = reference_hnf(list(lattice) + [img], ncols)
                queue.append(img)
    return lattice
