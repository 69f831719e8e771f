"""Reference integer echelon and Smith form for the lattice tests.

ReferenceEchelon is the echelon that lattices._SparseEchelon replaced:
it inserts rows one at a time without keeping them canonical, rescans
a whole row after every reduction step, and back-reduces once at the
end.  reference_smith_invariants is the dense Smith elimination that
smith_invariants replaced, with its own pivot search, row and column
swaps and divisibility sweep, and reference_subgroup_invariants reads
coefficients over the HNF of gens + relations as subgroup_invariants
once did.  They are slow but simple, and the tests compare hnf,
left_kernel, spin_closure, smith_invariants and subgroup_invariants
against the functions here.  HNF results are plain tuples of rows,
since the canonical HNF is unique.
"""

from lpres.lattices import AbelianInvariants, row_times_matrix, xgcd


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


def reference_coefficients(hnf_rows, vector):
    """Coefficients of vector over the HNF rows, or None when outside."""
    v = list(vector)
    coeffs = []
    for row in hnf_rows:
        p = next(j for j, x in enumerate(row) if x)
        q, r = divmod(v[p], row[p])
        if r:
            return None
        coeffs.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    return None if any(v) else coeffs


def reference_membership(hnf_rows, vector):
    return reference_coefficients(hnf_rows, vector) is not None


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


def reference_smith_invariants(rows, ambient_rank):
    work = [list(r) for r in rows]
    m, n = len(work), ambient_rank
    diag = []
    t = 0
    while t < min(m, n):
        # locate the smallest nonzero entry in the trailing submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = work[i][j]
                if x and (best is None or abs(x) < abs(work[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        work[t], work[bi] = work[bi], work[t]
        if bj != t:
            for row in work:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t
            dirty = False
            p = work[t][t]
            for i in range(t + 1, m):
                if work[i][t]:
                    q = work[i][t] // p
                    if q:
                        wi, wt = work[i], work[t]
                        for j in range(t, n):
                            wi[j] -= q * wt[j]
                    if work[i][t]:
                        dirty = True
            if dirty:
                best = min(
                    (i for i in range(t, m) if work[i][t]),
                    key=lambda i: abs(work[i][t]),
                )
                work[t], work[best] = work[best], work[t]
                continue
            # clear row t
            dirty = False
            p = work[t][t]
            for j in range(t + 1, n):
                if work[t][j]:
                    q = work[t][j] // p
                    if q:
                        for row in work:
                            row[j] -= q * row[t]
                    if work[t][j]:
                        dirty = True
            if dirty:
                jbest = min(
                    (j for j in range(t, n) if work[t][j]),
                    key=lambda j: abs(work[t][j]),
                )
                for row in work:
                    row[t], row[jbest] = row[jbest], row[t]
                continue
            # divisibility sweep: the pivot must divide the rest
            p = abs(work[t][t])
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if work[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            wi, wt = work[culprit], work[t]
            for j in range(t, n):
                wt[j] += wi[j]
        diag.append(abs(work[t][t]))
        t += 1
    return AbelianInvariants(ambient_rank - len(diag), tuple(d for d in diag if d > 1))


def reference_subgroup_invariants(gens, relations, ncols):
    total = reference_hnf(list(gens) + list(relations), ncols)
    coeff_rows = [reference_coefficients(total, r) for r in relations]
    return reference_smith_invariants(coeff_rows, len(total))
