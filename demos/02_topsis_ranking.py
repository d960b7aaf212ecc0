"""Ranking alternatives with TOPSIS.

Each alternative is a row of criterion values; criteria are tagged benefit
(larger is better) or cost. `rank` negates the benefit columns, so every
column is a cost, and hands the matrix to the one TOPSIS formula
(`moits.topsis._topsis`, the same one that elects DE bests): columns are
normalized by their largest absolute value, the positive ideal is each
column's minimum and the negative ideal its maximum, and each row is scored
by its closeness coefficient xi = d- / (d+ + d-): 1 at the positive ideal,
0 at the negative ideal.
"""

import numpy as np

from moits.topsis import BENEFIT, COST, DecisionMatrix, rank

# four laptops: price (cost), battery hours (benefit), weight kg (cost)
alternatives = ["budget", "ultrabook", "workstation", "gaming"]
entries = np.array(
    [
        [600.0, 7.0, 1.8],
        [1400.0, 14.0, 1.1],
        [2200.0, 9.0, 2.4],
        [1800.0, 5.0, 3.1],
    ]
)
matrix = DecisionMatrix(
    entries,
    criteria_senses=(COST, BENEFIT, COST),
    weights=np.array([0.5, 0.3, 0.2]),
)

ranking = rank(matrix)
print("closeness coefficients:")
for name, xi in zip(alternatives, ranking.closeness):
    print(f"  {name:<12} xi = {xi:.4f}")

print("\nranked best to worst:", " > ".join(alternatives[i] for i in ranking.order))
