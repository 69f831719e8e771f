"""Walk the nilpotent quotient tower of an L-presented group.

Each step extends the weighted presentation of G/gamma_c G by a
central layer and imposes the spun relators on it.  The layers of the
lower central series and the quotient orders come out as byproducts.
"""

from lpres import load_catalog, quotient_tower


def walk(name, max_class):
    pres = load_catalog(name)
    print("=" * 60)
    print("%s, classes 1..%d" % (name, max_class))
    print("-" * 60)
    last = 0
    for c, system in quotient_tower(pres, max_class):
        layer = system.pc.lcs_factor(c)
        order = system.order()
        print(
            "class %2d: layer %-12s order %s  (%d pc generators)"
            % (c, layer.render(), "infinite" if order is None else order, system.pc.ngens)
        )
        last = c
    if last < max_class:
        print("series stabilizes at class %d" % last)
    print()


if __name__ == "__main__":
    walk("grigorchuk", 9)
    walk("bsv", 6)
