"""Walk through the graded ideal picture for the smallest rank-two type.

The script builds the coordinate model for A2, prints the two graded
pieces that cut out a one-dimensional stratum, multiplies two extreme
coefficients to watch the product land in the predicted plane, and then
recovers a missing coefficient by one saturation step.

Run:  python3 demos/ideal_walk_rank2.py
"""

from qbruhat.coordring import CoordinateModel
from qbruhat.exactalg import format_scalar
from qbruhat.uqmodules import extreme_dual_row
from qbruhat.weyl import format_word

DEGREES = [(1, 0), (0, 1), (1, 1)]


def show_piece(model, piece, title):
    print("  %s: dim %d" % (title, piece.dim))
    module = piece.module
    for wt in module.block_order:
        entry = piece.blocks.get(wt)
        if not entry:
            continue
        rng = module.weight_indices(wt)
        for row in entry.rows:
            cells = ", ".join(format_scalar(c) for c in row)
            print("    weight %-8s rows %d..%d  [%s]"
                  % (wt, rng.start, rng.stop - 1, cells))


def main():
    model = CoordinateModel.get("A2")
    g = model.group
    s1, s2 = g.gens
    w12 = g.parse("s1 s2")

    print("== lowering-side piece at %s ==" % format_word(s1.word))
    for deg in DEGREES:
        show_piece(model, model.demazure_orth(s1, "-", deg),
                   "degree %s" % (deg,))

    print("\n== raising-side piece at %s ==" % format_word(w12.word))
    for deg in DEGREES:
        show_piece(model, model.demazure_orth(w12, "+", deg),
                   "degree %s" % (deg,))

    print("\n== product of the two short extreme coefficients ==")
    prod = model.multiply((1, 0), extreme_dual_row(model.module((1, 0)), s1),
                          (0, 1), extreme_dual_row(model.module((0, 1)), s2))
    mod = model.module((1, 1))
    support = sorted({mod.weights[k] for k in prod})
    print("  support weights:", support)
    pair = model.pair_piece(s1, w12, (1, 1))
    print("  zero-weight plane of the pair piece has dim",
          pair.block_dim((0, 0)))
    print("  product lies inside it:", pair.contains_cell(prod))

    print("\n== saturation recovers the long coefficient ==")
    raw = model.pair_piece(s1, w12, (0, 1))
    print("  raw pair piece at degree (0, 1): dim", raw.dim)
    sat = model.saturation(s1, w12, (0, 1), 1)
    target = extreme_dual_row(model.module((0, 1)), s2)
    print("  after one step: dims %s, contains the %s coefficient: %s"
          % (sat.dims, format_word(s2.word), sat.final.contains_cell(target)))

    print("\n== the recovered piece knows its stratum ==")
    wy, wz, sat2 = model.stratum_of(s1, w12, (1, 1))
    print("  support extremes name the pair (%s, %s), chain %s"
          % (format_word(wy.word), format_word(wz.word), sat2.dims))


if __name__ == "__main__":
    main()
