"""congrlab: exact verification of p-adic congruences for central binomial
coefficient sums, with two evaluation paths that must agree."""
