"""One model, three arithmetic modes: exact rationals, p-bit floats, and
certified error budgets.  The softmax-uniform model scores a binary word by
the fraction of ones minus one half, so the true value is known in closed
form and every mode can be judged against it.

Run:  python3 demos/05_softmax_budgeted.py
"""

from exact_xformer import (
    Rat,
    eval_budgeted,
    eval_smat_pbit,
    load_model,
    margin_recognize,
    plan_budget,
)
from exact_xformer.pfloat import decimal_str, float_to_rat


def main() -> None:
    m = load_model("softmax-uniform")
    w = "1101"
    # Uniform attention makes the score (ones/length - 1/2) in closed form.
    truth = Rat(2 * w.count("1") - len(w), 2 * len(w))
    print(f"w={w!r}: true score = {truth}")

    for p in (8, 24, 53):
        v = eval_smat_pbit(m, w, p)
        err = abs(float_to_rat(v) - truth)
        print(f"  p={p:2} float: {decimal_str(v):18}  |error| = {err}")

    print("\nbudgeted mode: pick epsilon, get a rational within epsilon, certified")
    for k in (8, 32, 128):
        eps = Rat(1, 1 << k)
        got = eval_budgeted(m, w, eps)
        ok = abs(got - truth) <= eps
        print(f"  eps=2^-{k:<3}  within bound: {ok}   value bits grow with the budget")

    budget = plan_budget(m, n=len(w), epsilon=Rat(1, 1 << 16))
    softmax_sites = [k for k in budget.site_deltas if "softmax" in ".".join(map(str, k))]
    print(f"\nbudget plan for eps=2^-16: {len(budget.site_deltas)} approximation sites,"
          f" {len(softmax_sites)} softmax")

    print("\nmargin decisions (epsilon = 2^-8):")
    for w in ("110", "001", "10"):
        d = margin_recognize(m, w, Rat(1, 256))
        print(f"  w={w!r:6} -> {d.value}")


if __name__ == "__main__":
    main()
