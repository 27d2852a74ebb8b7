"""Centre dimensions next to the characters that explain them.

Prints the centre table for a few types, the scan showing that the two
extreme cells are the only ones reaching the full centre rank, and the
truncated characters of translated cell cones whose masses drive the
closure dimensions used everywhere else.
"""

from qbruhat.cartan import build_cartan
from qbruhat.centre import centre_table, distinguishing_scan
from qbruhat.characters import (cell_translate_character,
                                demazure_character)
from qbruhat.weyl import WeylGroup, format_word


def main():
    for label in ["A2", "B2"]:
        print("== centre table for %s ==" % label)
        for w, data in centre_table(label):
            gens = ", ".join(data.generators()) or "-"
            print("  %-12s dim %d   %s" % (format_word(w.word),
                                           data.dim, gens))
        print()

    print("== distinguishing scan ==")
    for row in distinguishing_scan():
        print("  %-3s order %-3d extreme dim %d, middle max %d"
              % (row["type"], row["order"], row["extreme_dim"],
                 row["max_middle_dim"]))

    print("\n== truncated cone characters in A2 (depth 4) ==")
    group = WeylGroup.build(build_cartan("A2"))
    for text in ["e", "s1", "s1 s2"]:
        w = group.parse(text)
        ch = cell_translate_character(group, w, 4)
        print("  w = %-6s %d weights, total mass %d"
              % (text, len(ch.terms), ch.mass()))

    print("\n== closure masses at the doubled fundamental box ==")
    datum = build_cartan("A2")
    for text in ["e", "s1", "s1 s2", "s1 s2 s1"]:
        w = group.parse(text)
        masses = [demazure_character(datum, w, lam).mass()
                  for lam in [(1, 0), (1, 1), (2, 2)]]
        print("  w = %-10s masses %s" % (text, masses))


if __name__ == "__main__":
    main()
