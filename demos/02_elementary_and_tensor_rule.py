"""
Elementary crystals and the tensor product rule
===============================================

The three building blocks (the string crystal at a vertex, the frozen
one-element crystal, and the capping element), then the signed-max rule
that decides which tensor factor an operator acts on.
"""

import json

from kmcrystals import BkElement, S0Element, TElement, TensorElement, build_root_datum
from kmcrystals import model_highest_weight

rd = build_root_datum("A1")

# The string crystal B_1: integers n with wt = n*alpha_1, eps = -n, phi = n.
b = BkElement(1, 0)
print("f moves down the string:", b.f(rd, 1))
print("e moves back up:        ", b.f(rd, 1).e(rd, 1))
print("statistics at n=3:", BkElement(1, 3).eps(rd, 1), BkElement(1, 3).phi(rd, 1))

# T_lambda carries a weight but freezes all operators (-inf statistics);
# S_0 also has no operators but statistics 0.  That difference is exactly
# what lets S_0 cap operator strings in a tensor product.
t = TElement(rd.weight((2,)))
s = S0Element()
print("T phi:", t.phi(rd, 1), "  S0 phi:", s.phi(rd, 1))

# The tensor rule.  Take the two-element crystal B(Lambda) twice:
hw = model_highest_weight(rd, (1,))
x = TensorElement((hw, hw))
print("phi profile of hw (x) hw:", x.phi_profile(rd, 1))

# f_1 acts at the largest position attaining the phi-maximum, here the
# LEFT factor (the rule prefers the left factor on strict inequality):
moved = x.f(rd, 1)
print("f(hw (x) hw) factors:", [json.loads(f.key()) for f in moved.factors])

# Repeated lowering walks the 3-dimensional component of the 2x2 square:
chain = [x]
while chain[-1] is not None:
    chain.append(chain[-1].f(rd, 1))
print("string length from the top:", len(chain) - 2)
