"""Elementary functions on p-bit floats: exp with a faithful relative error
bound, sqrt correctly rounded, plus the rational enclosures behind them.

Run:  python3 demos/03_elementary.py
"""

from exact_xformer import FloatRangeError, PFloat, Rat, f_exp, f_mul, f_sqrt, round_p
from exact_xformer.budget import sqrt_bounds
from exact_xformer.elementary import log2_const
from exact_xformer.pfloat import decimal_str


def main() -> None:
    p = 24
    one = PFloat(1 << (p - 1), -(p - 1), p)
    show = lambda tag, v: print(f"{tag}: ~ {decimal_str(v)}")

    show("exp(0)      ", f_exp(PFloat.zero(p)))
    show("exp(1)      ", f_exp(one))
    show("exp(-1)     ", f_exp(PFloat(-(1 << (p - 1)), -(p - 1), p)))

    # exp(a) * exp(b) should track exp(a + b) to within a few ulps.
    a, b = round_p(Rat(3, 2), p), round_p(Rat(5, 4), p)
    lhs = f_mul(f_exp(a), f_exp(b))
    rhs = f_exp(round_p(Rat(11, 4), p))
    show("exp(3/2) * exp(5/4)", lhs)
    show("exp(11/4)          ", rhs)

    # The argument range is bounded by the exponent range of the result.
    try:
        f_exp(PFloat(4, 2, 3))
    except FloatRangeError as exc:
        print(f"exp(16) at p=3 refused: {exc}")

    show("sqrt(2)     ", f_sqrt(PFloat(1 << (p - 1), -(p - 2), p)))
    show("sqrt(1/4)   ", f_sqrt(PFloat(1 << (p - 1), -(p + 1), p)))

    # The rational layer underneath: certified enclosures, width ~ 2^-bits.
    lo, hi = sqrt_bounds(Rat(2), bits=64)
    print(f"sqrt(2) in [{str(lo)[:30]}..., {str(hi)[:30]}...]")
    print(f"enclosure width < 2^-60: {hi - lo < Rat(1, 1 << 60)}")
    print(f"log2 to 96 bits: {str(log2_const(96))[:40]}...")


if __name__ == "__main__":
    main()
