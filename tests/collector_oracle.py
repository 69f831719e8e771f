"""Reference collector for the collection tests.

ReferenceCollector is the collector that PcPresentation's binary
powering replaced: mul_gen conjugates the segment after g_g by g_g one
step at a time, abs(e) times, and the central merge copies its inputs
and takes the smallest pending generator at every step.  It reads the
relations of a PcPresentation but shares no code or cache with its
collector, so the tests can compare mul, inv and pow_nf with it.  The
one change is that an empty segment is not conjugated: abs(e)
conjugations of the identity cost time and change nothing.  Its time
is linear in every exponent it conjugates by, and a product
compounds the exponents of infinite-order generators, so the tests
keep those exponents small.
"""


class ReferenceCollector:
    def __init__(self, pc):
        self.pc = pc
        self._conj_cache = {}

    def _central_bound(self):
        pc = self.pc
        return pc.ngens if pc.central_start is None else pc.central_start

    def mul(self, u, v):
        out = dict(u)
        for g in sorted(v):
            out = self.mul_gen(out, g, v[g])
        return out

    def mul_gen(self, u, g, e):
        if e == 0:
            return dict(u)
        cs = self._central_bound()
        if g >= cs:
            return self._central_merge(u, {g: e})
        base, mid, central = {}, {}, {}
        for k, v in u.items():
            if k < g:
                base[k] = v
            elif k < cs and k > g:
                mid[k] = v
            elif k >= cs:
                central[k] = v
        if mid:
            sign = 1 if e > 0 else -1
            for _ in range(abs(e)):
                mid = self._conj_nf(mid, g, sign)
        total = u.get(g, 0) + e
        o = self.pc.orders[g]
        carry = 0
        if o is not None:
            carry, total = divmod(total, o)
        res = base
        if total:
            res[g] = total
        if carry:
            res = self.mul(res, self.pow_nf(self.pc.power_tails.get(g, {}), carry))
        if mid:
            res = self.mul(res, mid)
        if central:
            res = self._central_merge(res, central)
        return res

    def _central_merge(self, u, add):
        out = dict(u)
        pending = dict(add)
        while pending:
            t = min(pending)
            e = pending.pop(t)
            if not e:
                continue
            total = out.get(t, 0) + e
            o = self.pc.orders[t]
            carry = 0
            if o is not None:
                carry, total = divmod(total, o)
            if total:
                out[t] = total
            else:
                out.pop(t, None)
            if carry:
                for h, f in self.pc.power_tails.get(t, {}).items():
                    pending[h] = pending.get(h, 0) + carry * f
        return out

    def inv(self, u):
        out = {}
        for g in sorted(u, reverse=True):
            out = self.mul_gen(out, g, -u[g])
        return out

    def pow_nf(self, u, k):
        if k == 0 or not u:
            return {}
        if k < 0:
            u = self.inv(u)
            k = -k
        result = {}
        base = dict(u)
        while True:
            if k & 1:
                result = self.mul(result, base)
            k >>= 1
            if not k:
                return result
            base = self.mul(base, base)

    def conj_gen_nf(self, g, sign, j):
        """Normal form of g_j conjugated by g_g^sign, for j > g."""
        key = (g, sign, j)
        cached = self._conj_cache.get(key)
        if cached is not None:
            return cached
        tail = self.pc.conj.get((g, j))
        if not tail:
            res = {j: 1}
        elif sign > 0:
            res = {j: 1}
            res.update(tail)
        else:
            res = self.mul({j: 1}, self.inv(self._conj_nf(tail, g, -1)))
        self._conj_cache[key] = res
        return res

    def _conj_nf(self, nf, g, sign):
        """Conjugate a normal form over generators > g by g_g^sign."""
        out = {}
        for j in sorted(nf):
            out = self.mul(out, self.pow_nf(self.conj_gen_nf(g, sign, j), nf[j]))
        return out
