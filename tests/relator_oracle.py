"""Explicit finite parts of the relator set of an L-presentation.

spun_relators lists the fixed relators and the images of the iterated
relators under every composition of at most `depth` endomorphisms.
The tests compare relator lattices, abelianizations and quotients with
these words, which never go through the cover's lifted matrices.
"""


def spun_relators(pres, depth):
    """Q, then phi(r) for every r in R and every phi of length <= depth.

    Breadth first: compositions by length, then lexicographically by
    endomorphism index with the first map applied first, and the
    iterated relators in order under each composition.  Duplicates are
    kept, so k maps give (k^(depth+1)-1)/(k-1) copies of R.
    """
    out = list(pres.fixed) + list(pres.iterated)
    frontier = [pres.iterated]
    for _ in range(depth):
        frontier = [tuple(endo(w) for w in rels) for rels in frontier for endo in pres.maps]
        for rels in frontier:
            out.extend(rels)
    return tuple(out)
