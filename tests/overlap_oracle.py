"""Reference overlap checks for the consistency tests.

reference_overlap_checks is the check that PcPresentation.overlap_checks
replaced: a formula of its own for each kind of overlap, g_j^(o_j-1)
and g_i^(o_i-1) raised with pow_nf, and g_j*g_i collected again for
every commutator triple.  It yields the same (kind, indices, lhs, rhs)
items, in its own order, with lhs and rhs of the pow and conj-pow
overlaps the other way round, so the tests compare each item's kind,
indices and the set {lhs, rhs}.
"""


def reference_overlap_checks(pc, prune=True):
    n = pc._central_bound() if prune else pc.ngens
    bound = pc.nclass
    conj = pc.conj
    # power overlaps g_i^(o_i + 1)
    for i in range(n):
        o = pc.orders[i]
        if o is None:
            continue
        tail = pc.power_tails.get(i, {})
        yield ("pow", (i,), pc.mul({i: 1}, tail), pc.mul(tail, {i: 1}))
    # power/conjugation overlaps g_j^(o_j) g_i and g_j g_i^(o_i)
    for i in range(n):
        for j in range(i + 1, n):
            oj = pc.orders[j]
            if oj is not None:
                tail = pc.power_tails.get(j, {})
                lhs = pc.mul(tail, {i: 1})
                rhs = pc.mul(pc.pow_nf({j: 1}, oj - 1), pc.mul({j: 1}, {i: 1}))
                yield ("pow-conj", (j, i), lhs, rhs)
            oi = pc.orders[i]
            if oi is not None:
                tail = pc.power_tails.get(i, {})
                lhs = pc.mul({j: 1}, tail)
                rhs = pc.mul(pc.mul({j: 1}, {i: 1}), pc.pow_nf({i: 1}, oi - 1))
                yield ("conj-pow", (j, i), lhs, rhs)
    # commutator overlaps g_k g_j g_i for k > j > i
    for i in range(n):
        wi = pc.weights[i]
        for j in range(i + 1, n):
            wij = wi + pc.weights[j]
            if prune and wij + pc.weights[j] > bound:
                break
            for k in range(j + 1, n):
                if prune and wij + pc.weights[k] > bound:
                    break
                if (i, j) not in conj and (i, k) not in conj and (j, k) not in conj:
                    continue
                lhs = pc.mul(pc.mul({k: 1}, {j: 1}), {i: 1})
                rhs = pc.mul({k: 1}, pc.mul({j: 1}, {i: 1}))
                yield ("comm", (k, j, i), lhs, rhs)
