"""Exact rational arithmetic: the substrate every other mode is checked against.

Run:  python3 demos/01_exact_rationals.py
"""

from exact_xformer import Rat
from exact_xformer.rational import rat_sum


def main() -> None:
    a = Rat(3, 12)
    b = Rat.from_string("-7/2")
    print(f"Rat(3, 12) canonicalizes to {a}")
    print(f"parsed        {b}")
    print(f"a + b       = {a + b}")
    print(f"a * b       = {a * b}")

    # Folds are exact no matter how adversarial the magnitudes are.
    terms = [Rat(1, 3), Rat(1, 5), Rat(-8, 15), Rat(1, 10**30)]
    s = rat_sum(terms)
    print(f"sum of {len(terms)} terms = {s}  (tiny term survives)")

    # The price of exactness: operand size.  Numerator and denominator bit
    # lengths are the quantity the evaluator's growth trace tracks.
    x = Rat(1, 3)
    for step in range(1, 6):
        x = x * (x + Rat(1))
        print(f"after {step} squaring-ish steps: {(abs(x.num).bit_length(), x.den.bit_length())} bits")


if __name__ == "__main__":
    main()
