"""p-bit floats: correct rounding for single ops and for n-ary sums.

The n-ary sum is the interesting part.  Terms are grouped into exponent
blocks separated by gaps wide enough that trailing blocks can normally only
nudge the leading block's rounding at a breakpoint.  The exception is a
leading sum at the very bottom of its binade, where the nearest breakpoint
below sits at half the usual distance; the demo ends on such a case.

Run:  python3 demos/02_pbit_floats.py
"""

from exact_xformer import PFloat, Rat, f_add, f_sum_blocks, round_p
from exact_xformer.pfloat import block_threshold, decimal_str, float_to_rat, partition_blocks


def show(tag: str, x: PFloat) -> None:
    print(f"{tag}: m={x.m} e={x.e}  ~ {decimal_str(x)}")


def main() -> None:
    p = 3  # tiny precision makes every rounding decision visible

    show("round_p(9, p=3)  ", round_p(Rat(9), p))   # tie, goes to even
    show("round_p(11, p=3) ", round_p(Rat(11), p))

    x, y = PFloat(5, 0, p), PFloat(7, -4, p)
    show("x                ", x)
    show("y                ", y)
    show("f_add(x, y)      ", f_add(x, y))

    # Block partition: indexes grouped by exponent gaps >= block_threshold.
    theta = block_threshold(p, 4)
    xs = [PFloat(5, 0, p), PFloat(-4, 0, p), PFloat(6, -20, p), PFloat(7, -21, p)]
    print(f"\nblock threshold for p={p}, n=4: {theta}")
    print(f"partition: {partition_blocks(xs)}")
    show("f_sum_blocks     ", f_sum_blocks(xs))

    # Corner case: leading block sums to 1 = <4|-2>, the bottom of its binade.
    # The breakpoint below is only 2^-4 away (half the usual spacing), and the
    # far block supplies -35/512, which is enough to cross it.
    xs = [PFloat(5, 0, p), PFloat(-4, 0, p)] + [PFloat(-7, -9, p)] * 5
    exact = sum((float_to_rat(v) for v in xs), Rat(0))
    print(f"\ncorner case exact sum = {exact}")
    show("f_sum_blocks     ", f_sum_blocks(xs))
    show("round_p of exact ", round_p(exact, p))
    print("(the far block dragged the result across the lower breakpoint)")


if __name__ == "__main__":
    main()
