"""Exact evaluation with hard attention: the output is a closed-form
rational, membership is its sign, and the growth trace measures how wide
the intermediate operands get as inputs lengthen.

Run:  python3 demos/04_majority_ahat.py
"""

from exact_xformer import eval_ahat, load_model
from exact_xformer.evaluator import bit_growth_trace, fit_loglog_slope


def main() -> None:
    maj = load_model("majority")

    for w in ("1", "10110", "0010", "111000111"):
        value, trace = eval_ahat(maj, w)
        decision = {1: "accept", -1: "reject", 0: "tie"}[value.sign]
        widest = max(max(b) for b in [trace.embedding_bits] + trace.layer_bits)
        print(f"w={w!r:13} score={str(value):8} -> {decision}"
              f"  (max intermediate: {widest} bits)")

    # Operand width over input length.  Majority's averages reduce to tiny
    # fractions, so it stays flat; the inverse-index model keeps position
    # weights 1/i alive and grows linearly.  Both are polynomial, which is
    # the property the slope fit certifies.
    lengths = [4, 8, 16, 32, 64, 128, 256]
    print(f"\nbit growth over n = {lengths}:")
    for name in ("majority", "inverse-index"):
        rows = bit_growth_trace(load_model(name), lengths)
        widths = " ".join(f"{row['max_bits']:3}" for row in rows)
        print(f"  {name:14} max bits: {widths}   slope {fit_loglog_slope(rows):.3f}")


if __name__ == "__main__":
    main()
