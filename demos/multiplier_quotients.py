"""Multiplier images along the tower, with the order identity on display.

For each class c the cover of G/gamma_{c+1}G is built once; its central
section carries both the multiplier M(G/gamma_{c+1}G), the kernel of
its abelianization map, and the image of M(G) inside it: the relator
lattice the tower imposes, met with that kernel.
When the multiplier is finite, its order factors exactly as the image
order times the size of the next lower-central layer.
"""

from lpres import dwyer_range, load_catalog


def table(name, max_class):
    print("=" * 72)
    print(name)
    print("-" * 72)
    print("%4s  %-18s %-16s %-12s %s" % ("c", "image of M(G)", "M(quotient)", "next layer", "check"))
    for step in dwyer_range(load_catalog(name), max_class):
        full = step.multiplier.order()
        if full is None:
            check = "multiplier infinite"
        else:
            product = step.invariants.order() * step.next_layer.order()
            check = "order %d = %d x %d" % (full, step.invariants.order(), step.next_layer.order())
            assert full == product
        print(
            "%4d  %-18s %-16s %-12s %s"
            % (
                step.nclass,
                step.invariants.render(),
                step.multiplier.render(),
                step.next_layer.render(),
                check,
            )
        )
    print()


if __name__ == "__main__":
    table("grigorchuk", 8)
    table("twisted_twin", 6)
    table("basilica", 7)
