#!/usr/bin/env python3
"""Tour of the inequality DSL: parsing, builtins, group form, symmetries."""

from groupineq.ineq_dsl import (
    BUILTIN_IDS,
    builtin,
    group_form,
    parse,
    pretty_print,
    symmetry_group,
)


def main():
    print("builtin inequalities:", ", ".join(BUILTIN_IDS))

    ing = builtin("ingleton")
    print(f"\ningleton on {ing.n_vars} variables")
    print("  entropy form:", pretty_print(ing))
    print("  group form:  ", group_form(ing))
    print("  coefficients:")
    for subset in ing.subsets():
        label = "".join(str(i) for i in sorted(subset))
        print(f"    H(X_{label}): {ing.coeffs[subset]:+d}")

    sym = symmetry_group(ing)
    print(f"  coefficient symmetries: {len(sym)} variable permutations")
    for perm in sym:
        print("   ", perm)

    print("\nthe ten five-variable inequalities:")
    for ineq_id in BUILTIN_IDS:
        if ineq_id == "ingleton":
            continue
        spec = builtin(ineq_id)
        n_sym = len(symmetry_group(spec))
        print(f"  {ineq_id}: {len(spec.coeffs)} terms, symmetry group of size {n_sym}")
    print("  group form of dfz1:")
    print("   ", group_form(builtin("dfz1")))

    text = "I(X1;X2) <= I(X1;X2|X3) + I(X1;X2|X4) + I(X3;X4)"
    parsed = parse(text, id="hand-rolled")
    print(f"\nparsed {text!r}")
    print("  same coefficients as the ingleton builtin:",
          parsed.coeffs == ing.coeffs)


if __name__ == "__main__":
    main()
