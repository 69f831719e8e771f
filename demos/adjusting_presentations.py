"""Rewrite a finitely L-presented group over a basis of its relator lattice.

The adjustment step replaces the relators by an equivalent set split
into two parts: words whose exponent vectors form a lattice basis (so
the abelianization can be read off), and consequence words that lie in
the derived subgroup.  Only words with zero exponent vector can
represent classes of the Schur multiplier, so the consequences span
its image; the tests compare that span with the image lpres reads
off the imposed relator lattice.
"""

from lpres import adjust, load_catalog, serialize


def show(name):
    pres = load_catalog(name)
    adj = adjust(pres)
    print("=" * 60)
    print(name)
    print("-" * 60)
    print("abelianization:", adj.abelianization().render())
    print("basis words:")
    for word, vector in zip(adj.basis_words, adj.basis_vectors):
        print("  %-28s -> %s" % (word, vector))
    print("fixed consequences:")
    for word in adj.fixed_consequences:
        print("  %s" % word)
    print("iterated consequences:")
    for word in adj.iterated_consequences:
        print("  %s" % word)
    print()
    print(serialize(adj.presentation))


if __name__ == "__main__":
    show("grigorchuk")
    show("basilica")
