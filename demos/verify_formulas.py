"""Check the attachment-dynamics formulas by exact enumeration.

For a graph small enough to enumerate every node one entrant could cite,
the expected one-step change of a node's selection probability has a
closed form under each attachment rule. This script first walks one tiny
example by hand, then runs the randomized verification harness.
"""

import numpy as np

from citegrow import (
    TheoryGraph,
    exact_expected_change,
    selection_probabilities,
    theorem_formula,
    verify_theorem,
)


def tiny_example() -> None:
    # 3-node star: degrees sum to 2(t-1); equal fitness, plain degree rule
    g = TheoryGraph(degrees=np.array([2, 1, 1]), fitness=np.ones(3))
    probs = selection_probabilities("ba", g)
    print("degrees [2, 1, 1], one entrant arrives")
    print(f"  selection probabilities today: {np.round(probs, 4)}")
    exact = exact_expected_change("ba", g, new_fitness=1.0)
    formula = theorem_formula("ba", g, new_fitness=1.0)
    for node in range(3):
        print(f"  node {node}: exact E[dP] {exact[node]:+.6f}   "
              f"closed form {formula[node]:+.6f}   "
              f"match {abs(exact[node] - formula[node]) < 1e-15}")
    print()


def harness() -> None:
    for kind in ("ba", "af", "mf"):
        report = verify_theorem(kind, rng_seed=0)
        status = "ok" if report.passed else "FAILED"
        print(f"{kind}: {status}  trials {report.trials}  "
              f"max deviation {report.max_deviation:.3e}  "
              f"violations {report.violations}")
    print()
    print("ba and af are exact identities (deviations at float rounding);")
    print("mf is a sign-plus-bound statement checked in its validity regime.")


def main() -> None:
    tiny_example()
    harness()


if __name__ == "__main__":
    main()
