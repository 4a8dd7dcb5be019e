"""Exact rational arithmetic: the substrate every other mode is checked against.

Run:  python3 demos/01_exact_rationals.py
"""

from exact_xformer import (
    Rat,
    rat_bits,
    rat_from_string,
    rat_sum,
    rat_to_string,
)


def main() -> None:
    a = Rat(3, 12)
    b = rat_from_string("-7/2")
    print(f"Rat(3, 12) canonicalizes to {rat_to_string(a)}")
    print(f"parsed        {rat_to_string(b)}")
    print(f"a + b       = {rat_to_string(a + b)}")
    print(f"a * b       = {rat_to_string(a * b)}")

    # Folds are exact no matter how adversarial the magnitudes are.
    terms = [Rat(1, 3), Rat(1, 5), Rat(-8, 15), Rat(1, 10**30)]
    s = rat_sum(terms)
    print(f"sum of {len(terms)} terms = {rat_to_string(s)}  (tiny term survives)")

    # The price of exactness: operand size.  rat_bits measures numerator plus
    # denominator bit length, the quantity the evaluator's growth trace tracks.
    x = Rat(1, 3)
    for step in range(1, 6):
        x = x * (x + Rat(1))
        print(f"after {step} squaring-ish steps: {rat_bits(x)} bits")


if __name__ == "__main__":
    main()
